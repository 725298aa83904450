int X;
int Y;

void *Thread1(void *a) {
    X = Y + 1;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Y = X + 1;
    pthread_join(t, 0);
    return 0;
}
