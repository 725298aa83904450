int Ready;
int Data;

void *Thread1(void *x) {
    if (Ready) {
        Data = Data + 1;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Ready = 1;
    pthread_join(t, 0);
    return Data;
}
