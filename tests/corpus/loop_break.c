int G;

void *Worker(void *arg) {
    int i = 0;
    while (1) {
        i = i + 1;
        if (i < 3) {
            continue;
        }
        break;
    }
    G = i;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Worker, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
