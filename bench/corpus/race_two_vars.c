int X;
int Y;

void *Thread1(void *x) {
    X = 1;
    Y = 2;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    X = 3;
    Y = 4;
    pthread_join(t, 0);
    return X + Y;
}
